"""Climate profiles for the cities used in the paper (and beyond).

The paper evaluates on two climate-distinct cities, Pittsburgh (ASHRAE 4A,
mixed-humid) and Tucson (ASHRAE 2B, hot-dry), and uses New York (also 4A) in
the Fig. 3 noise-level study as the "similar city".  The scenario grid of
:mod:`repro.experiments` sweeps a much wider range of ASHRAE climate zones, so
this module ships profiles for one representative city per zone, plus
descriptor aliases (``hot_humid``, ``marine``, ...) that resolve to those
representatives.

Each profile stores the January and July statistics needed by the synthetic
weather generator: mean daily minimum/maximum drybulb temperature, humidity
level, wind climatology, latitude (for the solar model) and typical
cloudiness.  Values for other months are interpolated along an annual cosine
cycle anchored at the January (coldest) and July (warmest) statistics.

Values are approximations of long-term NOAA normals; the reproduction only
needs the relative character of the climates (cold and cloudy vs mild and
sunny), not the exact 2021 trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class ClimateProfile:
    """January/July climate statistics for one city."""

    name: str
    ashrae_zone: str
    latitude_deg: float
    longitude_deg: float
    january_tmin_c: float
    january_tmax_c: float
    temperature_day_to_day_std_c: float
    mean_relative_humidity: float
    relative_humidity_std: float
    mean_wind_speed_ms: float
    wind_speed_std_ms: float
    mean_cloud_cover: float
    cloud_cover_std: float
    #: July extremes anchoring the annual cycle; default to a generic
    #: mid-latitude seasonal swing when a profile predates them.
    july_tmin_c: Optional[float] = None
    july_tmax_c: Optional[float] = None

    #: Fallback January-to-July warming when July statistics are not given.
    DEFAULT_SEASONAL_SWING_C = 18.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.mean_cloud_cover <= 1.0):
            raise ValueError("mean_cloud_cover must be in [0, 1]")
        if not (0.0 <= self.mean_relative_humidity <= 100.0):
            raise ValueError("mean_relative_humidity must be a percentage")
        if self.january_tmin_c > self.january_tmax_c:
            raise ValueError("january_tmin_c must not exceed january_tmax_c")
        if (self.july_tmin_c is None) != (self.july_tmax_c is None):
            raise ValueError("july_tmin_c and july_tmax_c must be given together")
        if self.july_tmin_c is not None and self.july_tmin_c > self.july_tmax_c:
            raise ValueError("july_tmin_c must not exceed july_tmax_c")

    # --------------------------------------------------------------- january
    @property
    def january_mean_c(self) -> float:
        """Mean January drybulb temperature: the midpoint of its daily min and max."""
        return 0.5 * (self.january_tmin_c + self.january_tmax_c)

    @property
    def diurnal_amplitude_c(self) -> float:
        """Half the mean January diurnal range (daily max minus min)."""
        return 0.5 * (self.january_tmax_c - self.january_tmin_c)

    # ---------------------------------------------------------------- annual
    def _july(self) -> tuple:
        if self.july_tmin_c is not None:
            return self.july_tmin_c, self.july_tmax_c
        swing = self.DEFAULT_SEASONAL_SWING_C
        return self.january_tmin_c + swing, self.january_tmax_c + swing

    @staticmethod
    def _annual_interp(january_value: float, july_value: float, month: int) -> float:
        """Cosine annual cycle through the January and July anchor values."""
        mid = 0.5 * (january_value + july_value)
        amplitude = 0.5 * (july_value - january_value)
        return mid - amplitude * math.cos(2.0 * math.pi * (month - 1) / 12.0)

    def monthly_tmin_c(self, month: int) -> float:
        """Mean daily minimum temperature for a month (1-12)."""
        july_tmin, _ = self._july()
        return self._annual_interp(self.january_tmin_c, july_tmin, month)

    def monthly_tmax_c(self, month: int) -> float:
        """Mean daily maximum temperature for a month (1-12)."""
        _, july_tmax = self._july()
        return self._annual_interp(self.january_tmax_c, july_tmax, month)

    def monthly_mean_c(self, month: int) -> float:
        """Mean drybulb temperature for a month; equals ``january_mean_c`` for month 1."""
        return 0.5 * (self.monthly_tmin_c(month) + self.monthly_tmax_c(month))

    def monthly_diurnal_amplitude_c(self, month: int) -> float:
        """Half the diurnal range for a month; equals ``diurnal_amplitude_c`` for month 1."""
        return 0.5 * (self.monthly_tmax_c(month) - self.monthly_tmin_c(month))


_CLIMATES: Dict[str, ClimateProfile] = {
    "pittsburgh": ClimateProfile(
        name="pittsburgh",
        ashrae_zone="4A",
        latitude_deg=40.44,
        longitude_deg=-79.99,
        january_tmin_c=-5.5,
        january_tmax_c=2.5,
        temperature_day_to_day_std_c=4.0,
        mean_relative_humidity=68.0,
        relative_humidity_std=12.0,
        mean_wind_speed_ms=4.3,
        wind_speed_std_ms=1.8,
        mean_cloud_cover=0.68,
        cloud_cover_std=0.22,
        july_tmin_c=17.5,
        july_tmax_c=28.5,
    ),
    "new_york": ClimateProfile(
        name="new_york",
        ashrae_zone="4A",
        latitude_deg=40.71,
        longitude_deg=-74.01,
        january_tmin_c=-2.8,
        january_tmax_c=4.3,
        temperature_day_to_day_std_c=3.8,
        mean_relative_humidity=62.0,
        relative_humidity_std=12.0,
        mean_wind_speed_ms=4.9,
        wind_speed_std_ms=1.9,
        mean_cloud_cover=0.60,
        cloud_cover_std=0.22,
        july_tmin_c=20.5,
        july_tmax_c=29.5,
    ),
    "tucson": ClimateProfile(
        name="tucson",
        ashrae_zone="2B",
        latitude_deg=32.22,
        longitude_deg=-110.97,
        january_tmin_c=4.5,
        january_tmax_c=18.5,
        temperature_day_to_day_std_c=3.0,
        mean_relative_humidity=45.0,
        relative_humidity_std=14.0,
        mean_wind_speed_ms=3.1,
        wind_speed_std_ms=1.4,
        mean_cloud_cover=0.30,
        cloud_cover_std=0.20,
        july_tmin_c=25.0,
        july_tmax_c=38.0,
    ),
    "miami": ClimateProfile(
        name="miami",
        ashrae_zone="1A",
        latitude_deg=25.76,
        longitude_deg=-80.19,
        january_tmin_c=15.5,
        january_tmax_c=24.5,
        temperature_day_to_day_std_c=2.0,
        mean_relative_humidity=72.0,
        relative_humidity_std=10.0,
        mean_wind_speed_ms=4.2,
        wind_speed_std_ms=1.5,
        mean_cloud_cover=0.45,
        cloud_cover_std=0.20,
        july_tmin_c=25.5,
        july_tmax_c=32.5,
    ),
    "houston": ClimateProfile(
        name="houston",
        ashrae_zone="2A",
        latitude_deg=29.76,
        longitude_deg=-95.37,
        january_tmin_c=4.5,
        january_tmax_c=17.0,
        temperature_day_to_day_std_c=4.0,
        mean_relative_humidity=75.0,
        relative_humidity_std=12.0,
        mean_wind_speed_ms=3.6,
        wind_speed_std_ms=1.5,
        mean_cloud_cover=0.55,
        cloud_cover_std=0.25,
        july_tmin_c=24.5,
        july_tmax_c=34.5,
    ),
    "atlanta": ClimateProfile(
        name="atlanta",
        ashrae_zone="3A",
        latitude_deg=33.75,
        longitude_deg=-84.39,
        january_tmin_c=1.5,
        january_tmax_c=11.5,
        temperature_day_to_day_std_c=4.0,
        mean_relative_humidity=65.0,
        relative_humidity_std=13.0,
        mean_wind_speed_ms=4.1,
        wind_speed_std_ms=1.6,
        mean_cloud_cover=0.55,
        cloud_cover_std=0.25,
        july_tmin_c=21.5,
        july_tmax_c=32.0,
    ),
    "los_angeles": ClimateProfile(
        name="los_angeles",
        ashrae_zone="3B",
        latitude_deg=34.05,
        longitude_deg=-118.24,
        january_tmin_c=9.0,
        january_tmax_c=20.0,
        temperature_day_to_day_std_c=2.5,
        mean_relative_humidity=60.0,
        relative_humidity_std=15.0,
        mean_wind_speed_ms=3.0,
        wind_speed_std_ms=1.3,
        mean_cloud_cover=0.35,
        cloud_cover_std=0.25,
        july_tmin_c=17.5,
        july_tmax_c=28.5,
    ),
    "san_francisco": ClimateProfile(
        name="san_francisco",
        ashrae_zone="3C",
        latitude_deg=37.77,
        longitude_deg=-122.42,
        january_tmin_c=7.5,
        january_tmax_c=14.0,
        temperature_day_to_day_std_c=2.2,
        mean_relative_humidity=75.0,
        relative_humidity_std=12.0,
        mean_wind_speed_ms=4.0,
        wind_speed_std_ms=1.6,
        mean_cloud_cover=0.55,
        cloud_cover_std=0.25,
        july_tmin_c=12.5,
        july_tmax_c=21.0,
    ),
    "seattle": ClimateProfile(
        name="seattle",
        ashrae_zone="4C",
        latitude_deg=47.61,
        longitude_deg=-122.33,
        january_tmin_c=2.5,
        january_tmax_c=8.0,
        temperature_day_to_day_std_c=2.8,
        mean_relative_humidity=78.0,
        relative_humidity_std=10.0,
        mean_wind_speed_ms=3.9,
        wind_speed_std_ms=1.5,
        mean_cloud_cover=0.80,
        cloud_cover_std=0.15,
        july_tmin_c=13.5,
        july_tmax_c=25.0,
    ),
    "chicago": ClimateProfile(
        name="chicago",
        ashrae_zone="5A",
        latitude_deg=41.88,
        longitude_deg=-87.63,
        january_tmin_c=-7.5,
        january_tmax_c=0.0,
        temperature_day_to_day_std_c=4.5,
        mean_relative_humidity=70.0,
        relative_humidity_std=12.0,
        mean_wind_speed_ms=4.8,
        wind_speed_std_ms=1.9,
        mean_cloud_cover=0.65,
        cloud_cover_std=0.22,
        july_tmin_c=17.5,
        july_tmax_c=29.0,
    ),
    "denver": ClimateProfile(
        name="denver",
        ashrae_zone="5B",
        latitude_deg=39.74,
        longitude_deg=-104.99,
        january_tmin_c=-8.0,
        january_tmax_c=7.0,
        temperature_day_to_day_std_c=4.5,
        mean_relative_humidity=50.0,
        relative_humidity_std=15.0,
        mean_wind_speed_ms=3.6,
        wind_speed_std_ms=1.6,
        mean_cloud_cover=0.45,
        cloud_cover_std=0.22,
        july_tmin_c=13.5,
        july_tmax_c=31.5,
    ),
    "minneapolis": ClimateProfile(
        name="minneapolis",
        ashrae_zone="6A",
        latitude_deg=44.98,
        longitude_deg=-93.27,
        january_tmin_c=-13.5,
        january_tmax_c=-4.5,
        temperature_day_to_day_std_c=5.0,
        mean_relative_humidity=70.0,
        relative_humidity_std=10.0,
        mean_wind_speed_ms=4.4,
        wind_speed_std_ms=1.8,
        mean_cloud_cover=0.65,
        cloud_cover_std=0.20,
        july_tmin_c=17.0,
        july_tmax_c=28.5,
    ),
    "duluth": ClimateProfile(
        name="duluth",
        ashrae_zone="7",
        latitude_deg=46.79,
        longitude_deg=-92.10,
        january_tmin_c=-17.5,
        january_tmax_c=-8.5,
        temperature_day_to_day_std_c=5.0,
        mean_relative_humidity=72.0,
        relative_humidity_std=10.0,
        mean_wind_speed_ms=4.9,
        wind_speed_std_ms=1.9,
        mean_cloud_cover=0.68,
        cloud_cover_std=0.20,
        july_tmin_c=13.0,
        july_tmax_c=24.5,
    ),
}

#: ASHRAE-style climate descriptors resolving to a representative city.
CLIMATE_ALIASES: Dict[str, str] = {
    "very_hot_humid": "miami",
    "hot_humid": "houston",
    "hot_dry": "tucson",
    "warm_humid": "atlanta",
    "warm_dry": "los_angeles",
    "warm_marine": "san_francisco",
    "mixed_humid": "pittsburgh",
    "mixed_marine": "seattle",
    "cool_humid": "chicago",
    "cool_dry": "denver",
    "cold": "minneapolis",
    "very_cold": "duluth",
}


def available_climates() -> List[str]:
    """Names of the built-in climate profiles."""
    return sorted(_CLIMATES)


def available_climate_aliases() -> Dict[str, str]:
    """Descriptor aliases (``hot_humid`` ...) and the city each resolves to."""
    return dict(CLIMATE_ALIASES)


def get_climate(name: str) -> ClimateProfile:
    """Look up a climate profile by city name or descriptor alias (case-insensitive)."""
    key = name.strip().lower().replace(" ", "_").replace("-", "_")
    key = CLIMATE_ALIASES.get(key, key)
    if key not in _CLIMATES:
        raise KeyError(
            f"Unknown climate {name!r}. Available climates: {', '.join(available_climates())}; "
            f"aliases: {', '.join(sorted(CLIMATE_ALIASES))}"
        )
    return _CLIMATES[key]
