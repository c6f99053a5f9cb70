"""Synthetic TMY-style weather trace generation.

The generator produces, for a requested number of days at a requested timestep,
the four disturbance variables of Table 1 in the paper that do not depend on
the building itself:

* Outdoor Air Drybulb Temperature (degrees C),
* Outdoor Air Relative Humidity (%),
* Site Wind Speed (m/s),
* Site Total Radiation Rate Per Area (W/m^2).

The traces are built from a deterministic diurnal skeleton (climate means,
diurnal cycle peaking mid-afternoon, clear-sky solar) plus stochastic weather
systems: a slowly varying day-to-day temperature anomaly (AR(1) across days),
correlated short-term noise, cloud episodes that jointly reduce solar and raise
humidity, and gusty wind.  All randomness flows through a single NumPy
generator so traces are reproducible from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.utils.config import SimulationConfig
from repro.utils.rng import RNGLike, ensure_rng
from repro.weather.climates import ClimateProfile, get_climate
from repro.weather.solar import clear_sky_radiation


@dataclass
class WeatherSeries:
    """A generated weather trace aligned with the simulation timestep."""

    city: str
    minutes_per_step: int
    outdoor_temperature: np.ndarray
    relative_humidity: np.ndarray
    wind_speed: np.ndarray
    solar_radiation: np.ndarray
    hour_of_day: np.ndarray = field(repr=False, default=None)
    day_of_year: np.ndarray = field(repr=False, default=None)

    def __post_init__(self) -> None:
        n = len(self.outdoor_temperature)
        for name in ("relative_humidity", "wind_speed", "solar_radiation"):
            arr = getattr(self, name)
            if len(arr) != n:
                raise ValueError(f"{name} has length {len(arr)}, expected {n}")
        if self.hour_of_day is None:
            steps_per_day = 24 * 60 // self.minutes_per_step
            idx = np.arange(n)
            self.hour_of_day = (idx % steps_per_day) * (self.minutes_per_step / 60.0)
        if self.day_of_year is None:
            steps_per_day = 24 * 60 // self.minutes_per_step
            self.day_of_year = np.arange(n) // steps_per_day

    def __len__(self) -> int:
        return len(self.outdoor_temperature)

    @property
    def num_steps(self) -> int:
        """Number of time steps in the trace (``len(self)``)."""
        return len(self)

    def disturbance_at(self, step: int) -> Dict[str, float]:
        """Weather components of the disturbance vector at a timestep."""
        i = int(step) % len(self)
        return {
            "outdoor_temperature": float(self.outdoor_temperature[i]),
            "relative_humidity": float(self.relative_humidity[i]),
            "wind_speed": float(self.wind_speed[i]),
            "solar_radiation": float(self.solar_radiation[i]),
        }

    def slice(self, start: int, stop: int) -> "WeatherSeries":
        """Return a sub-trace covering ``[start, stop)``."""
        return WeatherSeries(
            city=self.city,
            minutes_per_step=self.minutes_per_step,
            outdoor_temperature=self.outdoor_temperature[start:stop].copy(),
            relative_humidity=self.relative_humidity[start:stop].copy(),
            wind_speed=self.wind_speed[start:stop].copy(),
            solar_radiation=self.solar_radiation[start:stop].copy(),
            hour_of_day=self.hour_of_day[start:stop].copy(),
            day_of_year=self.day_of_year[start:stop].copy(),
        )

    def as_matrix(self) -> np.ndarray:
        """Stack the four weather variables into an ``(n, 4)`` matrix."""
        return np.column_stack(
            [
                self.outdoor_temperature,
                self.relative_humidity,
                self.wind_speed,
                self.solar_radiation,
            ]
        )


class WeatherGenerator:
    """Generates :class:`WeatherSeries` traces for a climate profile."""

    #: Hour of day at which the diurnal temperature cycle peaks.
    PEAK_HOUR = 15.0

    def __init__(self, climate: ClimateProfile, simulation: Optional[SimulationConfig] = None):
        self.climate = climate
        self.simulation = simulation or SimulationConfig()

    def generate(self, seed: RNGLike = None, days: Optional[int] = None) -> WeatherSeries:
        """Generate a weather trace of ``days`` days (default: simulation config).

        Raises ``ValueError`` when ``days`` is not positive.  The generator's
        draws come in a fixed order: the day-to-day anomaly innovations, the
        temperature noise, the first cloud cover, the cloud innovations, the
        humidity noise and the wind noise.  Each stream is one ``normal``
        call, which yields the same values as one scalar call per element.
        """
        sim = self.simulation
        n_days = int(days) if days is not None else sim.days
        if n_days <= 0:
            raise ValueError("days must be positive")
        rng = ensure_rng(seed)
        steps_per_day = sim.steps_per_day
        n = n_days * steps_per_day
        step_hours = sim.step_hours
        climate = self.climate

        hour_of_day = (np.arange(n) % steps_per_day) * step_hours
        day_of_year = (np.arange(n) // steps_per_day) + sim.start_day_of_year

        # Day-to-day temperature anomaly: AR(1) process across days, then
        # held piecewise-constant (with linear interpolation) within each day.
        phi = 0.7
        innovation_std = climate.temperature_day_to_day_std_c * np.sqrt(1.0 - phi**2)
        anomaly_days = [0.0]
        for innovation in rng.normal(0.0, innovation_std, size=n_days).tolist():
            anomaly_days.append(phi * anomaly_days[-1] + innovation)
        anomaly_days = np.array(anomaly_days)
        day_frac = (np.arange(n) % steps_per_day) / steps_per_day
        day_idx = np.arange(n) // steps_per_day
        anomaly = (1.0 - day_frac) * anomaly_days[day_idx] + day_frac * anomaly_days[day_idx + 1]

        # Diurnal cycle: sinusoid peaking at PEAK_HOUR, with the mean and
        # amplitude of the simulated month (January statistics for month 1,
        # July for month 7, cosine annual interpolation in between).
        month = sim.start_month
        diurnal = climate.monthly_diurnal_amplitude_c(month) * np.cos(
            2.0 * np.pi * (hour_of_day - self.PEAK_HOUR) / 24.0
        )
        short_noise = self._smooth_noise(rng, n, std=0.5, window=4)
        outdoor_temperature = climate.monthly_mean_c(month) + diurnal + anomaly + short_noise

        # Cloud cover episodes: AR(1) at the timestep level, clipped to [0, 1].
        # The recursion runs on floats, and each conditional clip returns what
        # np.clip(level, 0.0, 1.0) would, bit for bit (a -0.0 stays -0.0).
        mean_cloud = climate.mean_cloud_cover
        level = rng.normal(mean_cloud, climate.cloud_cover_std)
        level = 0.0 if level < 0.0 else 1.0 if level > 1.0 else level
        cloud = [level]
        rho = 0.98
        cloud_innov_std = climate.cloud_cover_std * np.sqrt(1.0 - rho**2)
        for innovation in rng.normal(0.0, cloud_innov_std, size=n - 1).tolist():
            level = (mean_cloud + rho * (level - mean_cloud)) + innovation
            level = 0.0 if level < 0.0 else 1.0 if level > 1.0 else level
            cloud.append(level)
        cloud = np.array(cloud)

        day_of_year = day_of_year.astype(float)
        clear_sky = clear_sky_radiation(climate.latitude_deg, day_of_year, hour_of_day)
        solar_radiation = clear_sky * (1.0 - 0.75 * cloud)

        # Relative humidity: climate mean, higher when cloudy and at night,
        # lower mid-afternoon; clipped to a physical range.
        humidity = (
            climate.mean_relative_humidity
            + 15.0 * (cloud - climate.mean_cloud_cover)
            - 6.0 * np.cos(2.0 * np.pi * (hour_of_day - 3.0) / 24.0)
            + self._smooth_noise(rng, n, std=climate.relative_humidity_std * 0.3, window=8)
        )
        relative_humidity = np.clip(humidity, 5.0, 100.0)

        # Wind speed: log-normal-ish gusty process, never negative.
        wind = climate.mean_wind_speed_ms + self._smooth_noise(
            rng, n, std=climate.wind_speed_std_ms, window=6
        )
        wind_speed = np.clip(wind, 0.0, None)

        return WeatherSeries(
            city=climate.name,
            minutes_per_step=sim.minutes_per_step,
            outdoor_temperature=outdoor_temperature,
            relative_humidity=relative_humidity,
            wind_speed=wind_speed,
            solar_radiation=solar_radiation,
            hour_of_day=hour_of_day,
            day_of_year=day_of_year,
        )

    @staticmethod
    def _smooth_noise(rng: np.random.Generator, n: int, std: float, window: int) -> np.ndarray:
        """White noise smoothed with a moving average to avoid step-to-step jumps."""
        if std <= 0.0:
            return np.zeros(n)
        raw = rng.normal(0.0, std, size=n + window)
        kernel = np.ones(window) / window
        smoothed = np.convolve(raw, kernel, mode="valid")[:n]
        # Re-scale so the smoothed process keeps roughly the requested std.
        scale = std / max(smoothed.std(), 1e-9)
        return smoothed * min(scale, 3.0)


def generate_weather(
    city: str,
    seed: RNGLike = None,
    days: Optional[int] = None,
    simulation: Optional[SimulationConfig] = None,
) -> WeatherSeries:
    """Convenience wrapper: generate a weather trace for a named city."""
    generator = WeatherGenerator(get_climate(city), simulation=simulation)
    return generator.generate(seed=seed, days=days)
