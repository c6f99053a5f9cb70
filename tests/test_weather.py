"""Weather and occupancy traces, pinned bit for bit against their per-step reference.

``WeatherGenerator.generate``, the clear-sky solar model and
``OccupancySchedule.generate_series`` build whole traces with array ops.  The
functions below are verbatim copies of the per-step code they replaced; every
test compares dtype and bytes with them on the machine that runs it.  Golden
values would not do: numpy's vectorised ``np.power`` disagrees with the C
library's ``pow`` in the last bits on AVX-512 machines, which is why the live
solar model takes its two powers on Python floats, and only a same-machine
reference shows that.
"""

from typing import Optional

import numpy as np
import pytest

from repro.buildings.occupancy import OccupancySchedule, OccupancySeries, office_schedule
from repro.utils.config import SimulationConfig
from repro.utils.rng import RNGLike, ensure_rng
from repro.weather import available_climates, get_climate
from repro.weather import solar
from repro.weather.solar import CLEAR_SKY_TRANSMITTANCE, SOLAR_CONSTANT_W_M2
from repro.weather.tmy import WeatherGenerator, WeatherSeries, generate_weather

#: (month, 0-based day of year) of the trace start: winter, summer, spring, autumn.
STARTS = ((1, 0), (7, 181), (4, 90), (10, 300))
MINUTES_PER_STEP = (5, 15, 60)
DAYS = (1, 3, 14)
WEATHER_SEEDS = (0, 20261019)
WEATHER_FIELDS = (
    "outdoor_temperature",
    "relative_humidity",
    "wind_speed",
    "solar_radiation",
    "hour_of_day",
    "day_of_year",
)


# ----------------------------------------------------------------- reference
def solar_declination_rad(day_of_year: float) -> float:
    """Solar declination angle (radians) for a given day of the year (0-based)."""
    return np.deg2rad(23.45) * np.sin(2.0 * np.pi * (284.0 + day_of_year + 1.0) / 365.0)


def solar_elevation_angle(latitude_deg: float, day_of_year: float, hour_of_day: float) -> float:
    """Solar elevation angle in radians (negative below the horizon)."""
    lat = np.deg2rad(latitude_deg)
    decl = solar_declination_rad(day_of_year)
    hour_angle = np.deg2rad(15.0 * (hour_of_day - 12.0))
    sin_elev = np.sin(lat) * np.sin(decl) + np.cos(lat) * np.cos(decl) * np.cos(hour_angle)
    return float(np.arcsin(np.clip(sin_elev, -1.0, 1.0)))


def clear_sky_radiation(latitude_deg: float, day_of_year: float, hour_of_day: float) -> float:
    """Clear-sky global horizontal irradiance in W/m^2 (0 at night)."""
    elevation = solar_elevation_angle(latitude_deg, day_of_year, hour_of_day)
    if elevation <= 0.0:
        return 0.0
    air_mass = 1.0 / max(np.sin(elevation), 1e-3)
    direct = SOLAR_CONSTANT_W_M2 * (CLEAR_SKY_TRANSMITTANCE ** (air_mass ** 0.678))
    horizontal = direct * np.sin(elevation)
    # Add a small diffuse fraction so overcast mornings are not exactly zero.
    diffuse = 0.1 * SOLAR_CONSTANT_W_M2 * np.sin(elevation)
    return float(max(horizontal + diffuse, 0.0))


class ReferenceWeatherGenerator(WeatherGenerator):
    """The per-step ``generate`` (and its noise helper) before it moved to arrays."""

    def generate(self, seed: RNGLike = None, days: Optional[int] = None) -> WeatherSeries:
        """Generate a weather trace of ``days`` days (default: simulation config)."""
        rng = ensure_rng(seed)
        sim = self.simulation
        n_days = int(days) if days is not None else sim.days
        steps_per_day = sim.steps_per_day
        n = n_days * steps_per_day
        step_hours = sim.step_hours
        climate = self.climate

        hour_of_day = (np.arange(n) % steps_per_day) * step_hours
        day_of_year = (np.arange(n) // steps_per_day) + sim.start_day_of_year

        # Day-to-day temperature anomaly: AR(1) process across days, then
        # held piecewise-constant (with linear interpolation) within each day.
        anomaly_days = np.zeros(n_days + 1)
        phi = 0.7
        innovation_std = climate.temperature_day_to_day_std_c * np.sqrt(1.0 - phi**2)
        for d in range(1, n_days + 1):
            anomaly_days[d] = phi * anomaly_days[d - 1] + rng.normal(0.0, innovation_std)
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
        cloud = np.empty(n)
        cloud[0] = np.clip(rng.normal(climate.mean_cloud_cover, climate.cloud_cover_std), 0.0, 1.0)
        rho = 0.98
        cloud_innov_std = climate.cloud_cover_std * np.sqrt(1.0 - rho**2)
        for i in range(1, n):
            drift = rho * (cloud[i - 1] - climate.mean_cloud_cover)
            cloud[i] = np.clip(
                climate.mean_cloud_cover + drift + rng.normal(0.0, cloud_innov_std), 0.0, 1.0
            )

        clear_sky = np.array(
            [
                clear_sky_radiation(climate.latitude_deg, float(d), float(h))
                for d, h in zip(day_of_year, hour_of_day)
            ]
        )
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
            day_of_year=day_of_year.astype(float),
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


class ReferenceOccupancySchedule(OccupancySchedule):
    """The per-step ``generate_series`` and the scalar methods it called."""

    def is_working_day(self, day_index: int) -> bool:
        """Whether ``day_index`` (0 = the first Monday) falls on a working day."""
        return (day_index % 7) in set(self.working_days)

    def is_occupied(self, day_index: int, hour_of_day: float) -> bool:
        """Whether the building counts as occupied at this time (for the reward)."""
        if not self.is_working_day(day_index):
            return False
        return self.occupied_start_hour <= hour_of_day < self.occupied_end_hour

    def occupant_count(
        self, day_index: int, hour_of_day: float, rng: Optional[np.random.Generator] = None
    ) -> float:
        """Occupant count at a given time (0 when unoccupied)."""
        if not self.is_occupied(day_index, hour_of_day):
            return 0.0
        count = float(self.peak_occupants)
        # Ramp up during the first hour, ramp down during the last hour.
        if hour_of_day < self.occupied_start_hour + 1.0:
            count *= hour_of_day - self.occupied_start_hour
        elif hour_of_day > self.occupied_end_hour - 1.0:
            count *= self.occupied_end_hour - hour_of_day
        # Lunch dip between 12:00 and 13:00.
        if 12.0 <= hour_of_day < 13.0:
            count *= 1.0 - self.lunch_dip_fraction
        if rng is not None and self.absentee_std_fraction > 0:
            count *= max(0.0, 1.0 + rng.normal(0.0, self.absentee_std_fraction))
        return float(max(count, 0.0))

    def generate_series(
        self, simulation: SimulationConfig, seed: RNGLike = None
    ) -> "OccupancySeries":
        """Pre-compute occupancy for every timestep of a simulation."""
        rng = ensure_rng(seed) if seed is not None else None
        n = simulation.total_steps
        counts = np.zeros(n, dtype=np.float64)
        occupied = np.zeros(n, dtype=bool)
        for i in range(n):
            day = i // simulation.steps_per_day
            hour = (i % simulation.steps_per_day) * simulation.step_hours
            occupied[i] = self.is_occupied(day, hour)
            counts[i] = self.occupant_count(day, hour, rng)
        return OccupancySeries(counts=counts, occupied=occupied, minutes_per_step=simulation.minutes_per_step)


# ------------------------------------------------------------------- helpers
def assert_same_bits(actual, expected):
    """Equal dtype, shape and bytes: ``-0.0`` and ``0.0`` differ."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_same_weather(actual: WeatherSeries, expected: WeatherSeries):
    assert (actual.city, actual.minutes_per_step) == (expected.city, expected.minutes_per_step)
    for name in WEATHER_FIELDS:
        assert_same_bits(getattr(actual, name), getattr(expected, name))


def occupancy_schedules(peak: int):
    """The default schedule, a shifted window with a Saturday, and a 24-hour day."""
    return {
        "default": office_schedule(peak),
        "shifted": dict(
            occupied_start_hour=7.25,
            occupied_end_hour=18.5,
            peak_occupants=peak,
            working_days=(0, 1, 2, 3, 4, 5),
            absentee_std_fraction=0.0,
        ),
        "all_day": dict(
            occupied_start_hour=0.0,
            occupied_end_hour=24.0,
            peak_occupants=peak,
            lunch_dip_fraction=0.0,
        ),
    }


# ------------------------------------------------------------------- weather
@pytest.mark.parametrize("city", available_climates())
def test_weather_traces_match_the_per_step_reference(city):
    climate = get_climate(city)
    for month, start_day in STARTS:
        for minutes in MINUTES_PER_STEP:
            simulation = SimulationConfig(
                days=3, minutes_per_step=minutes, start_month=month, start_day_of_year=start_day
            )
            live = WeatherGenerator(climate, simulation)
            reference = ReferenceWeatherGenerator(climate, simulation)
            for days in DAYS:
                for seed in WEATHER_SEEDS:
                    assert_same_weather(
                        live.generate(seed=seed, days=days),
                        reference.generate(seed=seed, days=days),
                    )


def test_weather_draws_leave_a_shared_generator_where_the_reference_does():
    """The trace takes the same number of draws, so later draws line up too."""
    climate = get_climate("seattle")
    live_rng, reference_rng = np.random.default_rng(11), np.random.default_rng(11)
    live = WeatherGenerator(climate).generate(seed=live_rng, days=2)
    reference = ReferenceWeatherGenerator(climate).generate(seed=reference_rng, days=2)
    assert_same_weather(live, reference)
    assert live_rng.random() == reference_rng.random()


def test_default_days_and_generate_weather_match_the_reference():
    simulation = SimulationConfig(days=2, minutes_per_step=30, start_month=3, start_day_of_year=60)
    reference = ReferenceWeatherGenerator(get_climate("denver"), simulation).generate(seed=4)
    assert_same_weather(
        generate_weather("denver", seed=4, simulation=simulation), reference
    )


@pytest.mark.parametrize("days", [0, -1])
def test_generate_rejects_non_positive_days(days):
    generator = WeatherGenerator(get_climate("pittsburgh"))
    with pytest.raises(ValueError, match="days must be positive"):
        generator.generate(seed=0, days=days)


# ---------------------------------------------------------------------- solar
def solar_grid():
    latitudes = [get_climate(city).latitude_deg for city in ("miami", "pittsburgh", "duluth")]
    days = np.arange(0, 365, 16, dtype=float)
    hours = np.arange(0, 24, 0.25)
    return latitudes + [0.0, -33.9, 66.0], days, hours


def test_scalar_solar_calls_return_the_reference_float():
    latitudes, days, hours = solar_grid()
    nights = 0
    for latitude in latitudes:
        for day in days[::3]:
            for hour in hours:
                day, hour = float(day), float(hour)
                radiation = solar.clear_sky_radiation(latitude, day, hour)
                expected = clear_sky_radiation(latitude, day, hour)
                assert type(radiation) is float
                assert radiation.hex() == expected.hex()
                nights += expected == 0.0
                elevation = solar.solar_elevation_angle(latitude, day, hour)
                assert type(elevation) is float
                assert elevation.hex() == solar_elevation_angle(latitude, day, hour).hex()
    assert nights > 0
    assert solar.clear_sky_radiation(40.0, 10, 0) == 0.0


def test_array_solar_calls_match_the_reference_element_wise():
    latitudes, days, hours = solar_grid()
    day_grid, hour_grid = (grid.ravel() for grid in np.meshgrid(days, hours, indexing="ij"))
    points = list(zip(day_grid.tolist(), hour_grid.tolist()))
    for latitude in latitudes:
        expected_radiation = [clear_sky_radiation(latitude, d, h) for d, h in points]
        expected_elevation = [solar_elevation_angle(latitude, d, h) for d, h in points]
        assert_same_bits(
            solar.clear_sky_radiation(latitude, day_grid, hour_grid), np.array(expected_radiation)
        )
        assert_same_bits(
            solar.solar_elevation_angle(latitude, day_grid, hour_grid), np.array(expected_elevation)
        )


# ------------------------------------------------------------------ occupancy
@pytest.mark.parametrize("kind", ["default", "shifted", "all_day"])
@pytest.mark.parametrize("peak", [0, 12, 24, 48])
def test_occupancy_series_match_the_per_step_reference(kind, peak):
    spec = occupancy_schedules(peak)[kind]
    if isinstance(spec, OccupancySchedule):
        live = spec
        reference = ReferenceOccupancySchedule(peak_occupants=peak)
    else:
        live, reference = OccupancySchedule(**spec), ReferenceOccupancySchedule(**spec)
    for minutes in MINUTES_PER_STEP:
        for days in DAYS:
            simulation = SimulationConfig(days=days, minutes_per_step=minutes)
            for seed in (None, 0, 7):
                actual = live.generate_series(simulation, seed=seed)
                expected = reference.generate_series(simulation, seed=seed)
                assert actual.minutes_per_step == expected.minutes_per_step
                assert_same_bits(actual.counts, expected.counts)
                assert_same_bits(actual.occupied, expected.occupied)


def test_occupancy_draws_leave_a_shared_generator_where_the_reference_does():
    simulation = SimulationConfig(days=8, minutes_per_step=15)
    live_rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
    actual = office_schedule().generate_series(simulation, seed=live_rng)
    expected = ReferenceOccupancySchedule().generate_series(simulation, seed=reference_rng)
    assert_same_bits(actual.counts, expected.counts)
    assert live_rng.random() == reference_rng.random()


def test_schedule_rejects_negative_absenteeism():
    with pytest.raises(ValueError, match="absentee_std_fraction"):
        OccupancySchedule(absentee_std_fraction=-0.1)


def test_schedule_rejects_days_outside_the_week():
    with pytest.raises(ValueError, match="working_days"):
        OccupancySchedule(working_days=(7, 9))
