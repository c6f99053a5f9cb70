"""Occupancy schedules.

Occupant count is one of the disturbance variables in Table 1 of the paper and
the occupied/unoccupied flag switches the reward's energy weight (``w_e``).
This module provides a deterministic office-style weekly schedule with optional
stochastic absenteeism, at the simulation timestep resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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
        Days of the week (0=Monday) that are occupied; each must be in 0-6.
    lunch_dip_fraction:
        Fractional reduction of occupancy around lunch time.
    absentee_std_fraction:
        Standard deviation (non-negative) of the multiplicative occupancy
        noise, drawn independently for each occupied step.
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
        if self.absentee_std_fraction < 0.0:
            raise ValueError("absentee_std_fraction must be non-negative")
        if any(day not in range(7) for day in self.working_days):
            raise ValueError("working_days must be days of the week in 0-6 (0=Monday)")

    def generate_series(
        self, simulation: SimulationConfig, seed: RNGLike = None
    ) -> "OccupancySeries":
        """Pre-compute occupancy for every timestep of a simulation.

        Day 0 is a Monday.  A working day is occupied over
        ``[occupied_start_hour, occupied_end_hour)``.  The count ramps up over
        the first hour and down over the last, and dips by
        ``lunch_dip_fraction`` between 12:00 and 13:00.  With a ``seed``,
        each occupied step's count is multiplied by
        ``max(0, 1 + N(0, absentee_std_fraction))``, drawn in one ``normal``
        call in step order.  A count takes its factors in the per-step order
        (ramp, lunch dip, absenteeism), so it is the same bits as evaluating
        that step alone.
        """
        rng = ensure_rng(seed) if seed is not None else None
        steps = np.arange(simulation.total_steps)
        day = steps // simulation.steps_per_day
        hour = (steps % simulation.steps_per_day) * simulation.step_hours
        start, end = self.occupied_start_hour, self.occupied_end_hour
        occupied = (
            np.isin(day % 7, list(self.working_days)) & (start <= hour) & (hour < end)
        )
        counts = np.where(occupied, float(self.peak_occupants), 0.0)
        ramp_up = occupied & (hour < start + 1.0)
        ramp_down = occupied & ~ramp_up & (hour > end - 1.0)
        counts[ramp_up] *= hour[ramp_up] - start
        counts[ramp_down] *= end - hour[ramp_down]
        lunch = occupied & (12.0 <= hour) & (hour < 13.0)
        counts[lunch] *= 1.0 - self.lunch_dip_fraction
        if rng is not None and self.absentee_std_fraction > 0:
            absentee = rng.normal(0.0, self.absentee_std_fraction, size=int(occupied.sum()))
            counts[occupied] *= np.maximum(0.0, 1.0 + absentee)
        return OccupancySeries(
            counts=counts, occupied=occupied, minutes_per_step=simulation.minutes_per_step
        )


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
