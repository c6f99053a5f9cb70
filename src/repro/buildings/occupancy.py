"""Occupancy schedules.

Occupant count is one of the disturbance variables in Table 1 of the paper and
the occupied/unoccupied flag switches the reward's energy weight (``w_e``).
This module provides a deterministic office-style weekly schedule with optional
stochastic absenteeism, at the simulation timestep resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.utils.config import SimulationConfig
from repro.utils.rng import RNGLike, ensure_rng


@dataclass
class OccupancySchedule:
    """Weekly occupancy schedule for the whole building.

    Parameters
    ----------
    occupied_start_hour, occupied_end_hour:
        Daily occupied window on working days (fractional hours allowed).
    peak_occupants:
        Occupant count at full occupancy.
    working_days:
        Days of the week (0=Monday) that are occupied.
    lunch_dip_fraction:
        Fractional reduction of occupancy around lunch time.
    absentee_std_fraction:
        Standard deviation of multiplicative day-to-day occupancy noise.
    """

    occupied_start_hour: float = 8.0
    occupied_end_hour: float = 20.0
    peak_occupants: int = 24
    working_days: Sequence[int] = field(default_factory=lambda: (0, 1, 2, 3, 4))
    lunch_dip_fraction: float = 0.3
    absentee_std_fraction: float = 0.05

    def __post_init__(self) -> None:
        if not (0.0 <= self.occupied_start_hour < self.occupied_end_hour <= 24.0):
            raise ValueError("Occupied window must satisfy 0 <= start < end <= 24")
        if self.peak_occupants < 0:
            raise ValueError("peak_occupants must be non-negative")
        if not (0.0 <= self.lunch_dip_fraction < 1.0):
            raise ValueError("lunch_dip_fraction must be in [0, 1)")

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


@dataclass
class OccupancySeries:
    """Pre-computed per-step occupant counts and occupied flags."""

    counts: np.ndarray
    occupied: np.ndarray
    minutes_per_step: int

    def __post_init__(self) -> None:
        if len(self.counts) != len(self.occupied):
            raise ValueError("counts and occupied must have the same length")

    def __len__(self) -> int:
        return len(self.counts)

    def at(self, step: int) -> tuple:
        """``(occupant count, occupied flag)`` at ``step``, wrapping past the end."""
        i = int(step) % len(self)
        return float(self.counts[i]), bool(self.occupied[i])


def office_schedule(peak_occupants: int = 24) -> OccupancySchedule:
    """The default office schedule used throughout the experiments."""
    return OccupancySchedule(peak_occupants=peak_occupants)
